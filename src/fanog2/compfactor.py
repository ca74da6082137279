"""Norms, multiplication factors and composition factors on the Fano plane.

A multiplication factor is an antisymmetric sign table eps[p][q] in {+1,-1}
for p != q, stored as a 7x7 tuple-of-tuples with zero diagonal (indices are
point labels minus one).  A composition factor is a multiplication factor
whose induced 8-dimensional algebra is a composition algebra; for the
trivial norm this is equivalent to a line rule plus a quadrilateral rule,
and exactly 16 of them exist, in two sides of eight.
"""

from functools import lru_cache
from itertools import permutations, product

from . import fano


def eps_get(eps, p, q):
    return eps[p - 1][q - 1]


def _freeze(table):
    return tuple(tuple(row) for row in table)


def future(eps, p):
    return frozenset(q for q in fano.POINTS if q != p and eps_get(eps, p, q) == 1)


def past(eps, p):
    return frozenset(q for q in fano.POINTS if q != p and eps_get(eps, p, q) == -1)


@lru_cache(maxsize=None)
def is_composition_factor(eps):
    """The line and quadrilateral rules for the trivial norm, memoized per
    table.

    (i)  eps_PQ eps_QR = 1 for any line {P,Q,R};
    (ii) eps_PQ eps_QR eps_RS eps_SP = -1 for any quadrilateral {P,Q,R,S}.
    Both rules are checked over all orderings.
    """
    for d in fano.LINES:
        for p, q, r in permutations(sorted(fano.LINE_POINTS[d])):
            if eps[p - 1][q - 1] * eps[q - 1][r - 1] != 1:
                return False
    for d in fano.LINES:
        for p, q, r, s in permutations(sorted(fano.QUADRILATERALS[d])):
            v = eps[p - 1][q - 1] * eps[q - 1][r - 1]
            if v * eps[r - 1][s - 1] * eps[s - 1][p - 1] != -1:
                return False
    return True


def side(eps):
    """'O+' if the future of every point is a line, 'O-' if every past is."""
    if all(fano.is_line(future(eps, p)) for p in fano.POINTS):
        return "O+"
    if all(fano.is_line(past(eps, p)) for p in fano.POINTS):
        return "O-"
    return None


def canonical_epsilon(tau=fano.TAU):
    """The canonical composition factor of an oriented Fano plane.

    eps_{tau^i P1, tau^j P1} = legendre7(j - i).  Given the permutation
    that tau induces on line labels, it builds the factor of the dual plane.
    """
    if fano.order(tau) != 7:
        raise ValueError("an orientation must have order 7")
    exponent = {}
    p = 1
    for k in range(7):
        exponent[p] = k
        p = fano.apply(tau, p)
    table = [[0] * 7 for _ in range(7)]
    for p in fano.POINTS:
        for q in fano.POINTS:
            if p != q:
                table[p - 1][q - 1] = fano.legendre7(exponent[q] - exponent[p])
    return _freeze(table)


EPS_TAU = canonical_epsilon()


def negate(eps):
    return _freeze([[-v for v in row] for row in eps])


@lru_cache(maxsize=None)
def line_orientations():
    """The 2^7 = 128 antisymmetric tables that orient each line cyclically,
    one choice of (P, Q, R) or (P, R, Q) per line D_1..D_7 (P < Q < R)."""
    found = []
    for choice in product((0, 1), repeat=7):
        table = [[0] * 7 for _ in range(7)]
        for d in fano.LINES:
            a, b, c = sorted(fano.LINE_POINTS[d])
            if choice[d - 1]:
                b, c = c, b
            for x, y in ((a, b), (b, c), (c, a)):
                table[x - 1][y - 1] = 1
                table[y - 1][x - 1] = -1
        found.append(_freeze(table))
    return tuple(found)


@lru_cache(maxsize=None)
def enumerate_composition_factors():
    """All 16 composition factors for the trivial norm.

    Every composition factor orients each line consistently, so candidates
    are exactly the 128 line orientations; the quadrilateral rule then cuts
    them down to 16.
    """
    return tuple(eps for eps in line_orientations() if is_composition_factor(eps))


def act(g, eps):
    """Left action: (g.eps)_{PQ} = eps_{g^-1 P, g^-1 Q}."""
    idx = [p - 1 for p in fano.inverse(g)]
    return tuple(tuple(eps[i][j] for j in idx) for i in idx)


def orbit(eps):
    return frozenset(act(g, eps) for g in fano.all_collineations())


def orbit_decomposition():
    """The two 8-element orbits, keyed by side tag."""
    factors = enumerate_composition_factors()
    orbits = []
    remaining = set(factors)
    while remaining:
        eps = min(remaining)
        o = orbit(eps)
        orbits.append(o)
        remaining -= o
    return orbits


def isotropy():
    """The collineations fixing EPS_TAU."""
    eps = EPS_TAU
    return frozenset(g for g in fano.all_collineations() if act(g, eps) == eps)


def orientable_triangles():
    """Triangles {P,Q,R} carrying a cyclically consistent EPS_TAU-orientation."""
    eps = EPS_TAU
    out = []
    for t in fano.all_triangles():
        p, q, r = sorted(t)
        # orientable iff some cyclic order of the triangle gives all +1
        s1 = eps_get(eps, p, q) == eps_get(eps, q, r) == eps_get(eps, r, p) == 1
        s2 = eps_get(eps, p, r) == eps_get(eps, r, q) == eps_get(eps, q, p) == 1
        if s1 or s2:
            out.append(t)
    return tuple(out)


def enumerate_oriented_maps():
    """All 8 maps alpha: F -> V_F* with alpha_P(P)=1, alpha_P(Q)+alpha_Q(P)=1.

    alpha_P is stored as a 3-bit dual mask; alpha_P(Q) is the pairing parity.
    The points are assigned in order P1..P7, each from its forms in
    increasing order, and a partial assignment is dropped at the first pair
    Q < P that breaks the rule; the maps come out in that order.
    """
    choices = [
        [phi for phi in range(1, 8) if fano.pairing(phi, p) == 1] for p in fano.POINTS
    ]
    out = []

    def extend(partial):
        p = len(partial) + 1
        if p > 7:
            out.append(tuple(partial))
            return
        for phi in choices[p - 1]:
            if all(
                fano.pairing(alpha_q, p) + fano.pairing(phi, q) == 1
                for q, alpha_q in enumerate(partial, 1)
            ):
                extend(partial + [phi])

    extend([])
    return tuple(out)


def exponentiate(alpha):
    """Candidate sign rule eps_PQ = (-1)^{alpha_P(Q)} for an oriented map.

    Raises if the resulting table is not a composition factor; callers rely
    on this being validated loudly rather than patched.
    """
    table = [[0] * 7 for _ in range(7)]
    for p in fano.POINTS:
        for q in fano.POINTS:
            if p != q:
                table[p - 1][q - 1] = -1 if fano.pairing(alpha[p - 1], q) else 1
    eps = _freeze(table)
    if not is_composition_factor(eps):
        raise AssertionError("exponentiation candidate failed the composition rules")
    return eps


def twist(eps, v):
    """Sign-twist of a factor by a Fano-cube element v (label 1..7 or 0).

    The pair (P,Q) picks up -1 iff v does not lie on the line through P,Q.
    This is the affine action of the 8-element kernel group on each side.
    """
    if v == 0:
        return eps
    table = [[0] * 7 for _ in range(7)]
    for p in fano.POINTS:
        for q in fano.POINTS:
            if p != q:
                s = 1 if v in fano.LINE_POINTS[fano.wedge(p, q)] else -1
                table[p - 1][q - 1] = eps_get(eps, p, q) * s
    return _freeze(table)


def serialize(eps):
    """Row-major string of '+', '-' and '.' (diagonal)."""
    chars = {1: "+", -1: "-", 0: "."}
    return "".join(chars[v] for row in eps for v in row)
