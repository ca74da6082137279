"""Exact dense linear algebra over any of the supported fields.

Matrices are lists of rows of field elements.  Elimination divides exactly in
the coefficient field, so no rounding occurs.
"""

from operator import mul


def mat_mul(a, b):
    """Product of two matrices; works for int and field entries alike."""
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def rref(rows, field):
    """Reduced row echelon form; returns (new_rows, pivot_columns)."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(m)):
            if m[i][c]:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = field.one / m[r][c]
        m[r] = [inv * v for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rank(rows, field):
    return len(rref(rows, field)[1])


def nullspace(rows, field):
    """Basis of the right kernel of the matrix."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = rref(rows, field)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [field.zero] * ncols
        vec[fc] = field.one
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(vec)
    return basis


def in_span(rows, vec, field):
    """Whether vec lies in the row span of rows."""
    return rank(rows, field) == rank(list(rows) + [list(vec)], field)


def span_equal(rows_a, rows_b, field):
    ra = rank(rows_a, field)
    rb = rank(rows_b, field)
    return ra == rb == rank(list(rows_a) + list(rows_b), field)
