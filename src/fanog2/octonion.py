"""The 8-dimensional composition algebra attached to a sign table.

Elements are length-8 coefficient tuples (1, e1, ..., e7) over a coefficient
field.  Every basis product is a signed basis element,

    e_P e_Q = eps_PQ e_{P+Q}   (P != Q),      e_P^2 = -1,

with 1 central: a twisted group algebra on the Fano cube (Z_2)^3, whose
signs come from a factor eps.  For the canonical factor this is the octonion
product.  The rule is worked out once, in the table products(eps); the
product and every certificate read it.  The certificates are integer
identities on the table over all basis tuples, which by linearity hold for
all elements.

mul and bilinear evaluate over Q, Q(i) and F_p on integer coordinates: both
are bilinear, so each factor is scaled to integers once (by the lcm of its
denominators, or to its residues mod p), one integer loop does the
arithmetic, and each output coordinate becomes a field element once.  Over
Q(i) the scalar i is central, so the real and imaginary parts go through the
same loop.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import chain, product
import json
import operator

from . import compfactor, fano
from .scalars import (
    QI,
    QQ,
    GaussianRational,
    PrimeFieldElement,
    clear_denominators,
    gaussian_parts,
)


def unit():
    return (QQ.one,) + (QQ.zero,) * 7


def basis(i):
    """Basis element: index 0 is the unit, 1..7 are the imaginary units."""
    return tuple(QQ.one if j == i else QQ.zero for j in range(8))


def from_ints(coeffs):
    return tuple(QQ.of(c) for c in coeffs)


def add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def scale(c, x):
    return tuple(c * a for a in x)


@lru_cache(maxsize=None)
def products(eps):
    """The basis products: products(eps)[a][b] = (s, c) with e_a e_b = s e_c
    for basis labels a, b, c in 0..7 (0 is the unit); memoized."""
    rows = []
    for a in range(8):
        row = []
        for b in range(8):
            if not a or not b:
                row.append((1, a or b))
            elif a == b:
                row.append((-1, 0))
            else:
                row.append((eps[a - 1][b - 1], fano.add(a, b)))
        rows.append(tuple(row))
    return tuple(rows)


def _integer_mul(t, x, y):
    """The product of two integer coordinate vectors under the table t."""
    out = [0] * 8
    for a, row in zip(x, t):
        if a:
            for b, (s, k) in zip(y, row):
                out[k] += s * a * b
    return out


def _gaussian_integers(v):
    """((re, im), d): the real and imaginary parts of d v as int lists, for
    v over Q(i) and d the lcm of the parts' denominators."""
    parts, d = clear_denominators(gaussian_parts(v))
    return (parts[0::2], parts[1::2]), d


def mul(x, y, eps=compfactor.EPS_TAU, field=QQ):
    """The product xy in the algebra of eps over field.

    The coordinates of x and y are elements of field, or ints and Fractions
    that field contains.  Over Q the product is xy = (dx x)(dy y) / (dx dy)
    with dx x and dy y integer vectors; over Q(i) the real and imaginary
    parts multiply as (xr + i xi)(yr + i yi) = (xr yr - xi yi) + i(xr yi +
    xi yr); over F_p the residues multiply and are reduced once.
    """
    t = products(eps)
    if field is QQ:
        xs, dx = clear_denominators(x)
        ys, dy = clear_denominators(y)
        d = dx * dy
        return tuple(Fraction(z, d) for z in _integer_mul(t, xs, ys))
    if field is QI:
        (xr, xi), dx = _gaussian_integers(x)
        (yr, yi), dy = _gaussian_integers(y)
        d = dx * dy
        re = map(operator.sub, _integer_mul(t, xr, yr), _integer_mul(t, xi, yi))
        im = map(operator.add, _integer_mul(t, xr, yi), _integer_mul(t, xi, yr))
        return tuple(
            GaussianRational(Fraction(a, d), Fraction(b, d)) for a, b in zip(re, im)
        )
    xs = [field.of(a).v for a in x]
    ys = [field.of(b).v for b in y]
    return tuple(map(field.of, _integer_mul(t, xs, ys)))


def conjugate(x):
    return (x[0],) + tuple(-a for a in x[1:])


def norm(x):
    """The quadratic form B(x,x): sum of squares of the 8 coefficients."""
    return bilinear(x, x)


def _dot(x, y):
    return sum(map(operator.mul, x, y))


def bilinear(x, y):
    """B(x, y) = x_0 y_0 + ... + x_7 y_7, of the type that sum has when
    taken term by term: an int when every coordinate is an int, a Fraction
    over Q, a GaussianRational over Q(i), a PrimeFieldElement over F_p.  Over
    Q and Q(i) it is one integer dot product per part over the common
    denominator; over F_p it is one dot product of residues, reduced once.
    """
    kinds = set(map(type, x)) | set(map(type, y))
    if kinds <= {int, Fraction}:
        xs, dx = clear_denominators(x)
        ys, dy = clear_denominators(y)
        z = _dot(xs, ys)
        return z if kinds == {int} else Fraction(z, dx * dy)
    if kinds <= {int, Fraction, GaussianRational}:
        (xr, xi), dx = _gaussian_integers(x)
        (yr, yi), dy = _gaussian_integers(y)
        d = dx * dy
        return GaussianRational(
            Fraction(_dot(xr, yr) - _dot(xi, yi), d),
            Fraction(_dot(xr, yi) + _dot(xi, yr), d),
        )
    if not kinds <= {int, Fraction, PrimeFieldElement}:
        raise TypeError("coordinates of no one supported field: %s" % kinds)
    # F_p: every coordinate is read as a residue of the first field
    # element's prime, which raises ValueError on an element of another
    e = next(a for a in chain(x, y) if type(a) is PrimeFieldElement)
    xs = [e._coerce(a).v for a in x]
    ys = [e._coerce(b).v for b in y]
    return PrimeFieldElement(_dot(xs, ys), e.p)


# The certificates below work on signed labels (s, c), meaning s e_c.


def polarized_norm_identity(eps):
    """<e_a e_b, e_c e_d> + <e_a e_d, e_c e_b> = 2 d_ac d_bd on all 8^4
    quadruples: N(xy) = N(x)N(y) polarized in x and in y, so it holds on the
    basis iff the norm is multiplicative (characteristic != 2).

    For fixed (a, c) the left side is M + M^T at (b, d), with M[b][d] =
    <e_a e_b, e_c e_d>.  When the labels of rows a and c of the table are
    permutations, M is a signed permutation matrix: its one nonzero entry
    in row b sits at the d with e_c e_d on the label of e_a e_b.  So M + M^T
    can be nonzero only at those (b, d) and their transposes, where it is
    checked; when a = c every such d is b, so the 2 on the diagonal is
    checked there too.  That certifies all 64 entries from 8 per (a, c).
    If the labels of a row a are no permutation, e_a e_b and e_a e_d share
    a label for some b != d, the identity fails at (a, b, a, d), and the
    answer is False.  The answer is memoized per table.
    """
    return _norm_identity_holds(products(eps))


@lru_cache(maxsize=None)
def _norm_identity_holds(t):
    """polarized_norm_identity on the table t of products(eps)."""
    if any(sorted(k for _, k in row) != list(range(8)) for row in t):
        return False
    # where[c][k]: the d with e_c e_d = +-e_k
    where = [{k: d for d, (_, k) in enumerate(row)} for row in t]
    for a, c in product(range(8), repeat=2):
        ra, rc = t[a], t[c]
        for b, (s, k) in enumerate(ra):
            d = where[c][k]
            sd, kd = ra[d]
            partner = sd * rc[b][0] if kd == rc[b][1] else 0
            if s * rc[d][0] + partner != (2 if a == c and b == d else 0):
                return False
    return True


def norm_identity_matches_rules():
    """AC14.norm-structural: on each of the 128 line orientations, the
    polarized norm identity holds iff the line and quadrilateral rules do."""
    return all(
        polarized_norm_identity(eps) == compfactor.is_composition_factor(eps)
        for eps in compfactor.line_orientations()
    )


def _mul(t, u, v):
    r, m = t[u[1]][v[1]]
    return u[0] * v[0] * r, m


def _vanishes(*terms):
    out = [0] * 8
    for c, k in terms:
        out[k] += c
    return not any(out)


def _associator(t, a, b, c):
    """[e_a, e_b, e_c] = (e_a e_b) e_c - e_a (e_b e_c) as two signed labels."""
    return _mul(t, t[a][b], (1, c)), _mul(t, (-1, a), t[b][c])


def is_alternative():
    """[x,x,y] = [y,x,x] = 0 for all x, y.

    The associator is linear in each slot, so this holds iff its
    linearizations [e_a,e_b,e_c] + [e_b,e_a,e_c] and [e_c,e_a,e_b] +
    [e_c,e_b,e_a] vanish on all 8^3 basis triples (a = b included).
    """
    t = products(compfactor.EPS_TAU)
    return all(
        _vanishes(*_associator(t, a, b, c), *_associator(t, b, a, c))
        and _vanishes(*_associator(t, c, a, b), *_associator(t, c, b, a))
        for a, b, c in product(range(8), repeat=3)
    )


def conjugation_is_antiautomorphism():
    """conj(e_a e_b) = conj(e_b) conj(e_a) on all 8^2 basis pairs."""
    t = products(compfactor.EPS_TAU)

    def bar(u):
        return (u[0] if u[1] == 0 else -u[0]), u[1]

    return all(
        bar(t[a][b]) == _mul(t, bar((1, b)), bar((1, a)))
        for a, b in product(range(8), repeat=2)
    )


def lines_are_associative():
    """Each quaternion line {1} u D is associative on all its basis triples."""
    t = products(compfactor.EPS_TAU)
    return all(
        _vanishes(*_associator(t, a, b, c))
        for d in fano.LINES
        for a, b, c in product(quaternion_subalgebra(d), repeat=3)
    )


def clifford_identity():
    """L_p L_q + L_q L_p = -2 d_pq Id for the imaginary units, on every
    basis element e_b; by linearity L_x^2 = -B(x,x) Id for imaginary x."""
    t = products(compfactor.EPS_TAU)
    return all(
        _vanishes(
            _mul(t, (1, p), t[q][b]), _mul(t, (1, q), t[p][b]), (2 if p == q else 0, b)
        )
        for p, q in product(fano.POINTS, repeat=2)
        for b in range(8)
    )


def subalgebra_generated(indices):
    """Basis labels (0..7) spanning the unital subalgebra generated by the
    given imaginary basis elements; dimensions come out 2, 4 or 8.
    """
    t = products(compfactor.EPS_TAU)
    span = {0} | set(indices)
    changed = True
    while changed:
        changed = False
        for i in sorted(span):
            for j in sorted(span):
                k = t[i][j][1]
                if k not in span:
                    span.add(k)
                    changed = True
    return tuple(sorted(span))


def triangles_generate_algebra():
    """AC14.triangles: each of the 28 non-aligned triples generates the
    whole 8-dimensional algebra."""
    return all(
        len(subalgebra_generated(sorted(t))) == 8 for t in fano.all_triangles()
    )


def quaternion_subalgebra(d):
    """The span {1} u D_d is a quaternion subalgebra for any line d."""
    return (0,) + tuple(sorted(fano.LINE_POINTS[d]))


def table():
    """The 7x7 imaginary part of the multiplication table.

    Entry (i, j) is a signed label: +k or -k meaning e_i e_j = +-e_k, and
    0 meaning e_i e_i = -1.
    """
    t = products(compfactor.EPS_TAU)
    return tuple(tuple(s * k for s, k in t[i][1:]) for i in fano.POINTS)


def table_text():
    header = "    " + " ".join("%5s" % ("e%d" % j) for j in fano.POINTS)
    lines = [header]
    for i, row in zip(fano.POINTS, table()):
        cells = []
        for v in row:
            if v == 0:
                cells.append("%5s" % "-1")
            else:
                cells.append("%5s" % ("%se%d" % ("-" if v < 0 else "", abs(v))))
        lines.append(("e%d  " % i) + " ".join(cells))
    return "\n".join(lines)


def table_json():
    return json.dumps({"table": [list(row) for row in table()]}, indent=2)
