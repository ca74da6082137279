"""The 8-dimensional composition algebra attached to a sign table.

Elements are length-8 coefficient tuples (1, e1, ..., e7) over a coefficient
field.  Every basis product is a signed basis element,

    e_P e_Q = eps_PQ e_{P+Q}   (P != Q),      e_P^2 = -1,

with 1 central: a twisted group algebra on the Fano cube (Z_2)^3, whose
signs come from a factor eps.  For the canonical factor this is the octonion
product.  The rule is worked out once, in the table products(eps), which
the product and the certificates read (the 128-table one through its sign
words).  The certificates are integer identities on the table over all
basis tuples, which by linearity hold for all elements.

mul and norm evaluate over Q, Q(i) and F_p on integer coordinates: each
factor is scaled to integers once (by the lcm of its denominators, or to its
residues mod p), one integer loop does the arithmetic, and each output
coordinate becomes a field element once.  Over Q(i) the scalar i is central,
so the real and imaginary parts go through the same loop.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
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


# _LABELS[a][b]: the label c of e_a e_b = +-e_c, the same for every eps
_LABELS = tuple(tuple(fano.add(a, b) if a and b else a or b for b in range(8)) for a in range(8))


@lru_cache(maxsize=None)
def products(eps):
    """The basis products: products(eps)[a][b] = (s, c) with e_a e_b = s e_c
    for basis labels a, b, c in 0..7 (0 is the unit); memoized.  The labels
    are those of _LABELS; eps gives the signs off the unit and the diagonal."""
    rows = [tuple((1, c) for c in _LABELS[0])]
    for a, labels in enumerate(_LABELS[1:], 1):
        signs = [1, *eps[a - 1]]
        signs[a] = -1
        rows.append(tuple(zip(signs, labels)))
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
    parts multiply as (xr + i xi)(yr + i yi) = (xr yr - xi yi) + i((xr +
    xi)(yr + yi) - xr yr - xi yi), three products; over F_p the residues
    multiply and are reduced once.
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
        rr, ii = _integer_mul(t, xr, yr), _integer_mul(t, xi, yi)
        ss = _integer_mul(t, map(operator.add, xr, xi), list(map(operator.add, yr, yi)))
        re = map(operator.sub, rr, ii)
        im = map(operator.sub, map(operator.sub, ss, rr), ii)
        return tuple(
            GaussianRational(Fraction(a, d), Fraction(b, d)) for a, b in zip(re, im)
        )
    xs = [field.of(a).v for a in x]
    ys = [field.of(b).v for b in y]
    return tuple(map(field.of, _integer_mul(t, xs, ys)))


def _dot(x, y):
    return sum(map(operator.mul, x, y))


def norm(x):
    """The quadratic form B(x, x) = x_0^2 + ... + x_7^2, of the type that sum
    has when taken term by term: an int when every coordinate is an int, a
    Fraction over Q, a GaussianRational over Q(i), a PrimeFieldElement over
    F_p.  Over Q and Q(i) it is one integer sum per part over the squared
    common denominator, (xr + i xi)^2 having imaginary part 2 xr xi; over
    F_p it is one sum of squared residues, reduced once.
    """
    kinds = set(map(type, x))
    if kinds <= {int, Fraction}:
        xs, d = clear_denominators(x)
        z = _dot(xs, xs)
        return z if kinds == {int} else Fraction(z, d * d)
    if kinds <= {int, Fraction, GaussianRational}:
        (xr, xi), d = _gaussian_integers(x)
        return GaussianRational(
            Fraction(_dot(xr, xr) - _dot(xi, xi), d * d), Fraction(2 * _dot(xr, xi), d * d)
        )
    if not kinds <= {int, Fraction, PrimeFieldElement}:
        raise TypeError("coordinates of no one supported field: %s" % kinds)
    # F_p: every coordinate is read as a residue of the first field
    # element's prime, which raises ValueError on an element of another
    e = next(a for a in x if type(a) is PrimeFieldElement)
    xs = [e._coerce(a).v for a in x]
    return PrimeFieldElement(_dot(xs, xs), e.p)


def polarized_norm_identity(eps):
    """<e_a e_b, e_c e_d> + <e_a e_d, e_c e_b> = 2 d_ac d_bd on all 8^4
    quadruples: N(xy) = N(x)N(y) polarized in x and in y, so it holds on the
    basis iff the norm is multiplicative (characteristic != 2).  It is
    norm_identity_holds on a family of one."""
    return norm_identity_holds([products(eps)]) == 1


def norm_is_multiplicative():
    """AC14.norm-sampled: the polarized norm identity for EPS_TAU."""
    return polarized_norm_identity(compfactor.EPS_TAU)


def norm_identity_holds(tables):
    """polarized_norm_identity on a family of product tables, as a mask with
    bit i set where it holds on tables[i].

    For fixed (a, c) the left side is M + M^T at (b, d), with M[b][d] =
    <e_a e_b, e_c e_d>.  When the labels of rows a and c are permutations,
    M is a signed permutation matrix, nonzero only at the (b, d) with e_c e_d
    on the label of e_a e_b, so M + M^T is checked there and is 0 elsewhere.
    Where a = c that d is b and the identity reads 2 s_ab^2 = 2, so every
    sign is +-1: the valid mask of sign_words.  Each check of _label_plan is
    then one XOR of sign_words for the whole family.  The plan is per label
    table, so a family whose labels differ is read member by member.
    """
    signs, labels = zip(*(zip(*sum(t, ())) for t in tables))
    if len(set(labels)) > 1:
        return sum(norm_identity_holds([t]) << i for i, t in enumerate(tables))
    return _plan_holds(_label_plan(labels[0]), *compfactor.sign_words(signs))


def _plan_holds(plan, w, ok):
    """The checks of a label plan on sign words w with valid mask ok."""
    if plan is None:
        return 0
    for ab, cd, ad, cb in plan:
        ok &= w[ab] ^ w[cd] ^ w[ad] ^ w[cb]
    return ok


@lru_cache(maxsize=None)
def _label_plan(labels):
    """What the norm identity reads off the 64 labels of a product table,
    memoized per label table (the 128 line orientations share one): for each
    (a, c, b) with a < c, b <= d and e_c e_d = +-e_a e_b, the positions ab,
    cd, ad and cb of four signs that must multiply to -1; (c, a, d) and
    (a, c, d) would read the same four.  At b = d they are two signs read
    twice, whose product is never -1.  None where the identity fails
    whatever the signs: some row is no permutation (it fails at some
    (a, b, a, d)), or some e_a e_d and e_c e_b differ in label."""
    rows = [labels[8 * a : 8 * a + 8] for a in range(8)]
    if any(sorted(row) != list(range(8)) for row in rows):
        return None
    # where[c][k]: the d with e_c e_d = +-e_k
    where = [{k: d for d, k in enumerate(row)} for row in rows]
    plan = []
    for a, c in combinations(range(8), 2):
        for b, k in enumerate(rows[a]):
            d = where[c][k]
            if rows[a][d] != rows[c][b]:
                return None
            if b <= d:
                plan.append((8 * a + b, 8 * c + d, 8 * a + d, 8 * c + b))
    return tuple(plan)


def norm_identity_of_signs(family):
    """norm_identity_holds on products(eps) for a family of sign tables eps,
    whose sign words are compfactor.off_diagonal_words, 0 at the unit (+1)
    and -1, every bit set, on the diagonal (-1)."""
    w, ok = compfactor.off_diagonal_words(family)
    words = [w.get((a, b), -(a == b > 0)) for a in range(8) for b in range(8)]
    return _plan_holds(_label_plan(sum(_LABELS, ())), words, ok)


def norm_identity_matches_rules():
    """AC14.norm-structural: on each of the 128 line orientations, the
    polarized norm identity holds iff the line and quadrilateral rules do."""
    found = compfactor.line_orientations()
    return norm_identity_of_signs(found) == compfactor.rules_hold(found)


def _associators():
    """The basis associators of the algebra of EPS_TAU, by _associator_table."""
    return _associator_table(products(compfactor.EPS_TAU))


@lru_cache(maxsize=None)
def _associator_table(t):
    """The 512 basis associators [e_a, e_b, e_c] = (e_a e_b) e_c - e_a (e_b e_c)
    of a product table t, memoized per table, at 64 a + 8 b + c: its two
    signed labels, s e_k written as the integer s 16^k.  A sum of at most
    seven signed labels is then 0 iff it vanishes label by label, so a table
    whose labels are wrong fails as one whose signs are."""
    out = []
    for a, b, c in product(range(8), repeat=3):
        (r, k), (u, m) = t[a][b], t[b][c]
        (s, n), (v, j) = t[k][c], t[a][m]
        out.append((r * s << 4 * n, -u * v << 4 * j))
    return tuple(out)


def _sums():
    """The associator of each basis triple, as the sum of its two labels."""
    return list(map(sum, _associators()))


def is_alternative():
    """[x,x,y] = [y,x,x] = 0 for all x, y.

    The associator is linear in each slot, so this holds iff its
    linearizations [e_a,e_b,e_c] + [e_b,e_a,e_c] and [e_a,e_b,e_c] +
    [e_a,e_c,e_b] vanish on all 8^3 basis triples (a = b included).
    """
    assoc = _sums()
    return not any(
        [
            assoc[i] + assoc[64 * b + 8 * a + c] or assoc[i] + assoc[64 * a + 8 * c + b]
            for i, (a, b, c) in enumerate(product(range(8), repeat=3))
        ]
    )


def conjugation_is_antiautomorphism():
    """conj(e_a e_b) = conj(e_b) conj(e_a) on all 8^2 basis pairs: e_a e_b is
    the first label of [e_a, e_b, 1], conj negates every label but the unit
    (the integers +-1), and conj(e_b) conj(e_a) is e_b e_a, negated when just
    one of a and b is the unit."""
    first = [x for x, _ in _associators()]
    return all(
        [
            (v if abs(v) == 1 else -v) == (-1) ** ((a > 0) + (b > 0)) * first[64 * b + 8 * a]
            for a, b in product(range(8), repeat=2)
            for v in (first[64 * a + 8 * b],)
        ]
    )


def lines_are_associative():
    """Each quaternion line {1} u D is associative on all its basis triples."""
    assoc = _sums()
    return not any(
        [
            assoc[64 * a + 8 * b + c]
            for d in fano.LINES
            for a, b, c in product(quaternion_subalgebra(d), repeat=3)
        ]
    )


def clifford_identity():
    """L_p L_q + L_q L_p = -2 d_pq Id for the imaginary units, on every
    basis element e_b; by linearity L_x^2 = -B(x,x) Id for imaginary x.  The
    second label of [e_p, e_q, e_b] is -e_p (e_q e_b)."""
    second = [y for _, y in _associators()]
    return all(
        [
            second[64 * p + 8 * q + b] + second[64 * q + 8 * p + b] == (2 << 4 * b if p == q else 0)
            for p, q in product(fano.POINTS, repeat=2)
            for b in range(8)
        ]
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
