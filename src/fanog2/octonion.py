"""The 8-dimensional composition algebra attached to a sign table.

Elements are length-8 coefficient tuples (1, e1, ..., e7) over a coefficient
field; the product is determined by a composition factor eps via

    e_P e_Q = eps_PQ e_{P+Q}   (P != Q),      e_P^2 = -1,

with 1 central.  For the canonical factor this is the octonion product.
"""

import json

from . import compfactor, fano, linalg
from .scalars import QQ


def unit():
    return (QQ.one,) + (QQ.zero,) * 7


def basis(i):
    """Basis element: index 0 is the unit, 1..7 are the imaginary units."""
    return tuple(QQ.one if j == i else QQ.zero for j in range(8))


def from_ints(coeffs):
    return tuple(QQ.of(c) for c in coeffs)


def add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def sub(x, y):
    return tuple(a - b for a, b in zip(x, y))


def scale(c, x):
    return tuple(c * a for a in x)


def mul(x, y, eps=compfactor.EPS_TAU, field=QQ):
    out = [field.zero] * 8
    for i in range(8):
        if not x[i]:
            continue
        for j in range(8):
            if not y[j]:
                continue
            c = x[i] * y[j]
            if i == 0:
                out[j] = out[j] + c
            elif j == 0:
                out[i] = out[i] + c
            elif i == j:
                out[0] = out[0] - c
            else:
                k = fano.add(i, j)
                s = compfactor.eps_get(eps, i, j)
                out[k] = out[k] + c if s == 1 else out[k] - c
    return tuple(out)


def conjugate(x):
    return (x[0],) + tuple(-a for a in x[1:])


def norm(x):
    """The quadratic form B(x,x): sum of squares of the 8 coefficients."""
    out = x[0] * x[0]
    for a in x[1:]:
        out = out + a * a
    return out


def bilinear(x, y):
    out = x[0] * y[0]
    for a, b in zip(x[1:], y[1:]):
        out = out + a * b
    return out


def is_multiplicative_norm(eps, samples=None):
    """Check N(xy) = N(x)N(y), either on given samples or structurally.

    With samples=None the check is structural: for a multiplication factor,
    N is multiplicative iff eps is a composition factor.
    """
    if samples is None:
        return compfactor.is_composition_factor(eps)
    for x, y in samples:
        xf = from_ints(x)
        yf = from_ints(y)
        if norm(mul(xf, yf, eps)) != norm(xf) * norm(yf):
            return False
    return True


def associator(x, y, z):
    return sub(mul(mul(x, y), z), mul(x, mul(y, z)))


def is_alternative():
    """[x,x,y] = [y,x,x] = 0 for all x, y.

    The associator is linear in each slot, so for x = sum a_i e_i and a
    basis element w, [x,x,w] = sum a_i a_j [e_i,e_j,w].  That vanishes for
    every x iff [e_i,e_i,w] = 0 and [e_i,e_j,w] + [e_j,e_i,w] = 0 for all
    i, j, and the sums u = e_i + e_j (u = 2 e_i when i = j) test exactly
    these conditions; likewise [w,u,u] for the other side.
    """
    bs = [basis(i) for i in range(8)]
    for i in range(8):
        for j in range(8):
            u = add(bs[i], bs[j])
            for w in bs:
                if any(associator(u, u, w)) or any(associator(w, u, u)):
                    return False
    return True


def left_mult_matrix(x):
    cols = [mul(x, basis(j)) for j in range(8)]
    return [[cols[j][i] for j in range(8)] for i in range(8)]


def clifford_property(x):
    """L_x^2 = -B(x,x) Id for purely imaginary x (first coefficient zero)."""
    if x[0]:
        raise ValueError("the Clifford identity is for imaginary elements")
    m = left_mult_matrix(x)
    n = norm(x)
    sq = linalg.mat_mul(m, m)
    return all(sq[i][j] == (-n if i == j else 0) for i in range(8) for j in range(8))


def conjugation_is_antiautomorphism():
    bs = [basis(i) for i in range(8)]
    for i in range(8):
        for j in range(8):
            lhs = conjugate(mul(bs[i], bs[j]))
            rhs = mul(conjugate(bs[j]), conjugate(bs[i]))
            if lhs != rhs:
                return False
    return True


def subalgebra_generated(indices):
    """Basis labels (0..7) spanning the unital subalgebra generated by the
    given imaginary basis elements; dimensions come out 2, 4 or 8.
    """
    span = {0} | set(indices)
    changed = True
    while changed:
        changed = False
        for i in sorted(span):
            for j in sorted(span):
                if i and j and i != j:
                    k = fano.add(i, j)
                    if k not in span:
                        span.add(k)
                        changed = True
    return tuple(sorted(span))


def quaternion_subalgebra(d):
    """The span {1} u D_d is a quaternion subalgebra for any line d."""
    return (0,) + tuple(sorted(fano.LINE_POINTS[d]))


def table():
    """The 7x7 imaginary part of the multiplication table.

    Entry (i, j) is a signed label: +k or -k meaning e_i e_j = +-e_k, and
    0 meaning e_i e_i = -1.
    """
    out = []
    for i in fano.POINTS:
        row = []
        for j in fano.POINTS:
            if i == j:
                row.append(0)
            else:
                row.append(compfactor.eps_get(compfactor.EPS_TAU, i, j) * fano.add(i, j))
        out.append(tuple(row))
    return tuple(out)


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
