"""Exact elimination shared by the lattice, code and group layers.

Four jobs, each written once: echelon form over Z, integral Gram-Schmidt
(whose last leading minor is the determinant), the exact Fraction inverse,
and echelon form over F_p (whose length is the rank, F_2 included).  Each
routine returns the same rows in the same order for the same input; the
lattice basis reduction downstream depends on that.
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


def integral_gso(gram):
    """Integral Gram-Schmidt data of a positive definite integer Gram matrix.

    d[i] is the leading principal minor of order i (d[0] = 1, so
    |b_i*|^2 = d[i+1] / d[i] and d[-1] is the determinant) and
    lam[k][j] = d[j+1] mu_kj for j < k.  Every division is exact (Cohen,
    GTM 138, Alg. 2.6.7).  A Gram matrix that is not positive definite
    raises ValueError.
    """
    n = len(gram)
    d = [1] * (n + 1)
    lam = [[0] * k for k in range(n)]
    for k in range(n):
        for j in range(k + 1):
            u = gram[k][j]
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = u
            elif u <= 0:
                raise ValueError("form is not positive definite")
            else:
                d[k + 1] = u
    return d, lam


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
