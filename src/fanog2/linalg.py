"""Exact dense linear algebra over any of the supported fields.

Matrices are lists of rows of field elements.  No rounding occurs anywhere.
There is no matrix product here: the package's one matrix product is
g2._product, on spinor matrices kept as their nonzero entries.
Rank, span and kernel questions all go through Echelon, a basis that grows
one row at a time.  Over Q and Q(i) it is fraction-free: each row is a
primitive vector of integers or of Gaussian integers, reduced by
cross-multiplication (Bareiss, Math. Comp. 22, 1968).  Over F_p each row
is a list of int residues with pivot entry 1; a vector is reduced on plain
ints and brought back to residues once.  nullspace brings the Echelon's rows
to reduced form and reads the kernel basis off them, as field elements.
"""

from fractions import Fraction
from math import gcd
from operator import itemgetter

from .scalars import QI, QQ, GaussianRational, clear_denominators, gaussian_parts


class Echelon:
    """A semi-echelon basis of a row space, built one vector at a time.

    Each stored row has a pivot column where it is nonzero and where every
    later row is zero, so reducing a vector against the rows in insertion
    order clears all the pivots.  A row is kept with the columns it is
    nonzero in, in the form it is reduced in:

    - over Q, a primitive integer vector whose pivot entry a is positive; a
      vector is reduced as v <- (a/g) v - (f/g) row, with f the vector's
      pivot entry and g = gcd(a, f);
    - over Q(i), the real and imaginary parts of a primitive Gaussian-integer
      vector side by side, (re, im) at positions 2c and 2c + 1 for column c.
      The row was multiplied by the conjugate of its pivot entry, so that
      entry is a positive integer a, and v is reduced as over Q with
      g = gcd(a, Re f, Im f);
    - over F_p, residues in 0..p-1 with pivot entry 1; v <- v - f row on
      ints, with f the vector's pivot entry mod p, and every entry of v is
      reduced mod p once all rows are cleared.  Each step adds less than p^2
      to an entry, so entries stay below (rows + 1) p^2 in between.
    """

    def __init__(self, field, rows=()):
        self.field = field
        # (pivot position, pivot entry, [(position, value...), ...])
        self._rows = []
        for v in rows:
            self.add(v)

    def _dense(self, v):
        """v in the form the rows are kept in, as a new list.  Over Q a
        vector of ints is kept as it is: its denominators are all 1."""
        if self.field is QQ:
            if all(type(x) is int for x in v):
                return list(v)
            return clear_denominators(v)[0]
        if self.field is QI:
            return clear_denominators(gaussian_parts(v))[0]
        return [self.field.of(x).v for x in v]

    def _reduce(self, v):
        """v, in kept form, with every stored pivot cleared."""
        if self.field is QQ:
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
        elif self.field is QI:
            for pivot, a, terms in self._rows:
                fr, fi = v[pivot], v[pivot + 1]
                if fr or fi:
                    g = gcd(a, fr, fi)
                    if g != a:
                        s = a // g
                        v = [s * x for x in v]
                    fr //= g
                    fi //= g
                    for c, br, bi in terms:
                        v[c] -= fr * br - fi * bi
                        v[c + 1] -= fr * bi + fi * br
        else:
            p = self.field.p
            for pivot, _, terms in self._rows:
                f = v[pivot] % p
                if f:
                    for c, b in terms:
                        v[c] -= f * b
            v = [x % p for x in v]
        return v

    def _store(self, v):
        """Keep the reduced v as a new row; False when v is zero."""
        for pivot, x in enumerate(v):
            if x:
                break
        else:
            return False
        if self.field is QQ:
            g = gcd(*v) if x > 0 else -gcd(*v)
            row = (pivot, x // g, [(c, y // g) for c, y in enumerate(v) if y])
        elif self.field is QI:
            pivot -= pivot % 2
            xr, xi = v[pivot], v[pivot + 1]
            w = []
            for c in range(pivot, len(v), 2):
                yr, yi = v[c], v[c + 1]
                w += (yr * xr + yi * xi, yi * xr - yr * xi)
            g = gcd(*w)
            row = (
                pivot,
                w[0] // g,
                [(pivot + c, w[c] // g, w[c + 1] // g)
                 for c in range(0, len(w), 2) if w[c] or w[c + 1]],
            )
        else:
            p = self.field.p
            inv = pow(x, -1, p)
            row = (pivot, 1, [(c, inv * y % p) for c, y in enumerate(v) if y])
        self._rows.append(row)
        return True

    def add(self, v):
        """Add v to the basis; False (and no change) when v is in the span."""
        return self._store(self._reduce(self._dense(v)))

    def __contains__(self, v):
        return not any(self._reduce(self._dense(v)))

    def __len__(self):
        return len(self._rows)


def rank(rows, field):
    return len(Echelon(field, rows))


def nullspace(rows, field):
    """Basis of the right kernel of the matrix.

    The rows of an Echelon, added again from the last pivot to the first,
    come out zero in every other row's pivot column.  For each free column
    fc the basis vector is one at fc and -row[fc]/a at each row's pivot,
    with a the row's pivot entry: the basis that the reduced row echelon
    form gives.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    step = 2 if field is QI else 1
    reduced = Echelon(field)
    for _, _, terms in sorted(Echelon(field, rows)._rows, key=itemgetter(0), reverse=True):
        v = [0] * (step * ncols)
        for c, *b in terms:
            v[c : c + step] = b
        reduced._store(reduced._reduce(v))
    solved = {}  # pivot column -> -row/a, as field elements
    for pivot, a, terms in reduced._rows:
        out = [field.zero] * ncols
        for c, *b in terms:
            if field is QQ:
                x = Fraction(-b[0], a)
            elif field is QI:
                x = GaussianRational(Fraction(-b[0], a), Fraction(-b[1], a))
            else:
                x = field.of(-b[0])
            out[c // step] = x
        solved[pivot // step] = out
    basis = []
    for fc in range(ncols):
        if fc not in solved:
            vec = [field.zero] * ncols
            vec[fc] = field.one
            for pc, out in solved.items():
                vec[pc] = out[fc]
            basis.append(vec)
    return basis

