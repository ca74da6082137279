"""Norms, multiplication factors and composition factors on the Fano plane.

A multiplication factor is an antisymmetric sign table eps[p][q] in {+1,-1}
for p != q, stored as a 7x7 tuple-of-tuples with zero diagonal (indices are
point labels minus one).  A composition factor is a multiplication factor
whose induced 8-dimensional algebra is a composition algebra; for the
trivial norm this is equivalent to a line rule plus a quadrilateral rule,
and exactly 16 of them exist, in two sides of eight.
"""

from functools import lru_cache
from itertools import compress, permutations, product, repeat
from operator import eq, itemgetter

from . import fano


def eps_get(eps, p, q):
    return eps[p - 1][q - 1]


def _cone(eps, p, sign):
    """The future of p (sign 1) or its past (sign -1): the q with eps_pq =
    sign, which the zero on the diagonal never is."""
    return frozenset(compress(fano.POINTS, map(sign.__eq__, eps[p - 1])))


def sign_words(rows):
    """A family of sign rows as bit columns: words[k] has bit i set where
    rows[i][k] is -1, and valid has bit i set where every entry of rows[i]
    is +1 or -1.  A product of such signs is -1 exactly at the set bits of
    the XOR of their words."""
    bits = [1 << i for i in range(len(rows))]
    words, valid = [], (1 << len(rows)) - 1
    for col in zip(*rows):
        words.append(sum(compress(bits, map(eq, col, repeat(-1)))))
        valid &= words[-1] | sum(compress(bits, map(eq, col, repeat(1))))
    return words, valid


# the 42 entries (P, Q) off the diagonal, read off a flattened table
_OFF_DIAGONAL = tuple((p, q) for p in fano.POINTS for q in fano.POINTS if p != q)
_PICK = itemgetter(*(7 * p + q - 8 for p, q in _OFF_DIAGONAL))


@lru_cache(maxsize=None)
def off_diagonal_words(family):
    """sign_words of the 42 entries off the diagonal of a family of sign
    tables, memoized, with the words by (P, Q)."""
    words, ok = sign_words([_PICK(sum(eps, ())) for eps in family])
    return dict(zip(_OFF_DIAGONAL, words)), ok


@lru_cache(maxsize=None)
def rules_hold(family):
    """The line and quadrilateral rules for the trivial norm on a family of
    sign tables, memoized: bit i is set where family[i] obeys both.

    (i)  eps_PQ eps_QR = 1 for any line {P,Q,R};
    (ii) eps_PQ eps_QR eps_RS eps_SP = -1 for any quadrilateral {P,Q,R,S}.
    Both are checked over all orderings, 42 + 168 instances, each one XOR of
    off_diagonal_words for the family; an entry that is not +-1 breaks (i)."""
    w, ok = off_diagonal_words(family)
    for d in fano.LINES:
        for p, q, r in permutations(sorted(fano.LINE_POINTS[d])):
            ok &= ~(w[p, q] ^ w[q, r])
        for p, q, r, s in permutations(sorted(fano.QUADRILATERALS[d])):
            ok &= w[p, q] ^ w[q, r] ^ w[r, s] ^ w[s, p]
    return ok


def is_composition_factor(eps):
    """The rules of rules_hold on one sign table."""
    return rules_hold((eps,)) == 1


def side(eps):
    """'O+' if the future of every point is a line, 'O-' if every past is."""
    for sign, tag in ((1, "O+"), (-1, "O-")):
        if all(fano.is_line(_cone(eps, p, sign)) for p in fano.POINTS):
            return tag
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
        p = tau[p - 1]
    return tuple(
        tuple(fano.legendre7(exponent[q] - exponent[p]) if p != q else 0 for q in fano.POINTS)
        for p in fano.POINTS
    )


EPS_TAU = canonical_epsilon()


@lru_cache(maxsize=None)
def line_orientations():
    """The 2^7 = 128 antisymmetric tables that orient each line cyclically,
    one choice of (P, Q, R) or (P, R, Q) per line D_1..D_7 (P < Q < R): the
    table at position i takes (P, R, Q) on D_d where bit 7 - d of i is set.

    Row P of a table reads the choices of the three lines through P alone,
    so each of its 8 variants is built once; the tables are the columns of
    those rows over the 128 positions."""
    forward = {}
    for d in fano.LINES:
        a, b, c = sorted(fano.LINE_POINTS[d])
        for x, y in ((a, b), (b, c), (c, a)):
            forward[x, y], forward[y, x] = 1, -1
    columns = []
    for p in fano.POINTS:
        lines = fano.lines_through(p)
        through = [fano.wedge(p, q) if q != p else 0 for q in fano.POINTS]
        rows = {}
        for flips in product((0, 1), repeat=3):
            sign = dict(zip(lines, (1 - 2 * f for f in flips)))
            rows[flips] = tuple(
                [sign[d] * forward[p, q] if d else 0 for q, d in enumerate(through, 1)]
            )
        s1, s2, s3 = (7 - d for d in lines)
        columns.append([rows[i >> s1 & 1, i >> s2 & 1, i >> s3 & 1] for i in range(128)])
    return tuple(zip(*columns))


@lru_cache(maxsize=None)
def enumerate_composition_factors():
    """All 16 composition factors for the trivial norm.

    Every composition factor orients each line consistently, so candidates
    are exactly the 128 line orientations; the quadrilateral rule then cuts
    them down to 16.
    """
    found = line_orientations()
    mask = rules_hold(found)
    return tuple(eps for i, eps in enumerate(found) if mask >> i & 1)


def factor_count():
    """AC3.count: the number of composition factors."""
    return len(enumerate_composition_factors())


def _moved_signs(eps):
    """The signs of a sign table moved by each collineation h, in
    all_collineations() order: the 42 entries eps(hP, hQ) at the pairs
    (P, Q) of _OFF_DIAGONAL, as bytes with 1 where the entry is -1, one
    translate of fano._pair_columns per pair.  They are the entries of the
    left action h^-1 . eps, so they run over the orbit of eps, and the
    isotropy is where they are those of eps."""
    flags = bytearray(256)
    for p, q in _OFF_DIAGONAL:
        flags[8 * p + q] = eps[p - 1][q - 1] == -1
    columns = fano._pair_columns()
    return list(map(bytes, zip(*(columns[pq].translate(flags) for pq in _OFF_DIAGONAL))))


# for each row P, the positions of its entries in a value of _moved_signs,
# with 42 (one past the end) for the diagonal
_ROW_PICKS = tuple(
    itemgetter(*(6 * p + q - 7 - (q > p) if q != p else 42 for q in fano.POINTS))
    for p in fano.POINTS
)


def orbit(eps):
    """The orbit of a sign table under the collineations, as tables."""
    out = set()
    for signs in set(_moved_signs(eps)):
        entries = [-1 if v else 1 for v in signs] + [0]
        out.add(tuple([pick(entries) for pick in _ROW_PICKS]))
    return frozenset(out)


@lru_cache(maxsize=None)
def orbit_decomposition():
    """The two 8-element orbits of the composition factors, each found from
    its least member; memoized."""
    remaining = set(enumerate_composition_factors())
    orbits = []
    while remaining:
        o = orbit(min(remaining))
        orbits.append(o)
        remaining -= o
    return tuple(orbits)


def orbit_sizes():
    """AC3.orbits: the sizes of the orbits, sorted."""
    return sorted(map(len, orbit_decomposition()))


def orbit_sides():
    """AC3.sides: the set of side tags of each orbit, sorted."""
    return sorted(({side(f) for f in o} for o in orbit_decomposition()), key=str)


@lru_cache(maxsize=None)
def isotropy():
    """The collineations fixing EPS_TAU, those h whose moved signs are the
    table's own; memoized."""
    own = bytes(map((-1).__eq__, _PICK(sum(EPS_TAU, ()))))
    return frozenset(compress(fano.all_collineations(), map(own.__eq__, _moved_signs(EPS_TAU))))


def isotropy_order():
    """AC3.isotropy-order: the order of the isotropy group of EPS_TAU."""
    return len(isotropy())


def isotropy_is_shift_normalizer():
    """AC3.isotropy-normalizer: the isotropy equals the normalizer of the
    subgroup T generated by the shift fano.TAU.  g normalizes T iff
    g T = T g: in fano's product table the codes of g t, over all g, are
    the row of t, and those of t g are the entries at t of the row of g."""
    table = fano._product_table()[0]
    powers = list(map(fano._position, fano.generated_subgroup((fano.TAU,))))
    left = zip(*[table[i] for i in powers])
    right = [[row[i] for i in powers] for row in table]
    normal = map(eq, map(frozenset, left), map(frozenset, right))
    return isotropy() == frozenset(compress(fano.all_collineations(), normal))


# _VALUES[phi]: the values of the linear form with 3-bit dual mask phi, bit
# Q - 1 set where fano.pairing(phi, Q) is 1
_VALUES = tuple(sum(fano.pairing(phi, q) << q - 1 for q in fano.POINTS) for phi in range(8))


def enumerate_oriented_maps():
    """All 8 maps alpha: F -> V_F* with alpha_P(P)=1, alpha_P(Q)+alpha_Q(P)=1.

    alpha_P is stored as a 3-bit dual mask; alpha_P(Q) is the pairing parity,
    read off _VALUES.  The points are assigned in order P1..P7, each from
    its forms in increasing order, and a partial assignment is dropped at
    the first point P whose form breaks the rule with some Q < P; the maps
    come out in that order.
    """
    maps = [()]
    for p in fano.POINTS:
        forms = [phi for phi in range(1, 8) if _VALUES[phi] >> p - 1 & 1]
        maps = [
            alpha + (phi,)
            for alpha in maps
            for phi in forms
            if all(
                [
                    _VALUES[a] >> p - 1 & 1 != _VALUES[phi] >> q - 1 & 1
                    for q, a in enumerate(alpha, 1)
                ]
            )
        ]
    return tuple(maps)


def oriented_map_count():
    """AC3.oriented-maps: the number of oriented maps."""
    return len(enumerate_oriented_maps())


def exponentiate(maps):
    """The candidate sign rules eps_PQ = (-1)^{alpha_P(Q)} of a family of
    oriented maps, one table each; rules_hold says which are composition
    factors."""
    return tuple(
        tuple(
            tuple([0 if p == q else 1 - 2 * (_VALUES[phi] >> q - 1 & 1) for q in fano.POINTS])
            for p, phi in zip(fano.POINTS, alpha)
        )
        for alpha in maps
    )


def exponentials_summary():
    """AC3.exponentiation: how many distinct composition factors the 8
    oriented maps exponentiate to, their sides, and whether EPS_TAU is one
    of them.  A candidate that fails the rules is not counted."""
    tables = exponentiate(enumerate_oriented_maps())
    ok = rules_hold(tables)
    exps = {eps for i, eps in enumerate(tables) if ok >> i & 1}
    return len(exps), {side(e) for e in exps}, EPS_TAU in exps


def serialize(eps):
    """Row-major string of '+', '-' and '.' (diagonal)."""
    chars = {1: "+", -1: "-", 0: "."}
    return "".join(chars[v] for row in eps for v in row)
