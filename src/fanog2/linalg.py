"""Exact dense linear algebra over any of the supported fields.

Matrices are lists of rows of field elements.  No rounding occurs anywhere.
Rank and span questions go through Echelon, a basis that grows one row at a
time.  Over Q it is fraction-free: each row is a primitive integer vector,
reduced by cross-multiplication (Bareiss, Math. Comp. 22, 1968).  Over the
other fields it divides exactly in the field.  rref serves nullspace.
"""

from math import gcd, lcm
from operator import mul

from .scalars import QQ


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
        # eliminate along the pivot row's nonzero entries only
        terms = [(j, v) for j, v in enumerate(m[r]) if v]
        for i in range(len(m)):
            f = m[i][c]
            if i != r and f:
                row = m[i]
                for j, v in terms:
                    row[j] -= f * v
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


class Echelon:
    """A semi-echelon basis of a row space, built one vector at a time.

    Each stored row has a pivot column where it is nonzero and where every
    later row is zero, so reducing a vector against the rows in insertion
    order clears all the pivots.  A row is kept with the columns it is
    nonzero in.  Over Q the rows are primitive integer vectors, and a vector
    is reduced as v <- a v - f row with a the row's pivot entry and f the
    vector's, both divided by their gcd; over the other fields the pivot
    entry is one and f row is subtracted.
    """

    def __init__(self, field, rows=()):
        self.field = field
        self._integral = field is QQ
        self._rows = []  # (pivot, pivot entry, [(column, value), ...])
        for v in rows:
            self.add(v)

    def _reduce(self, v):
        if not self._integral:
            v = list(v)
            for pivot, _, terms in self._rows:
                f = v[pivot]
                if f:
                    for c, b in terms:
                        v[c] -= f * b
            return v
        v = _integer_row(v)
        for pivot, a, terms in self._rows:
            f = v[pivot]
            if f:
                g = gcd(a, f)
                if g != a:
                    s = a // g
                    v = [s * x for x in v]
                f //= g
                for c, b in terms:
                    v[c] -= f * b
        return v

    def add(self, v):
        """Add v to the basis; False (and no change) when v is in the span."""
        v = self._reduce(v)
        for pivot, x in enumerate(v):
            if x:
                if self._integral:
                    g = gcd(*v) if x > 0 else -gcd(*v)
                    self._rows.append(
                        (pivot, x // g, [(c, y // g) for c, y in enumerate(v) if y])
                    )
                else:
                    inv = self.field.one / x
                    self._rows.append(
                        (pivot, 1, [(c, inv * y) for c, y in enumerate(v) if y])
                    )
                return True
        return False

    def __contains__(self, v):
        return not any(self._reduce(v))

    def __len__(self):
        return len(self._rows)


def _integer_row(v):
    """A rational vector times the lcm of its denominators, as ints."""
    den = 1
    for x in v:
        if type(x) is not int:
            den = lcm(den, x.denominator)
    if den == 1:
        return [x.numerator for x in v]
    return [x.numerator * (den // x.denominator) for x in v]


def rank(rows, field):
    return len(Echelon(field, rows))


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
    return vec in Echelon(field, rows)


def span_equal(rows_a, rows_b, field):
    basis = Echelon(field, rows_a)
    return len(basis) == rank(rows_b, field) and all(v in basis for v in rows_b)
