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
    """The future of p (sign 1) or its past (sign -1): the q with eps_pq = sign."""
    return frozenset(q for q in fano.POINTS if q != p and eps_get(eps, p, q) == sign)


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
    one choice of (P, Q, R) or (P, R, Q) per line D_1..D_7 (P < Q < R)."""
    found = []
    for choice in product((0, 1), repeat=7):
        table = [[0] * 7 for _ in range(7)]
        for d, flip in zip(fano.LINES, choice):
            a, b, c = sorted(fano.LINE_POINTS[d])
            for x, y in ((a, c), (c, b), (b, a)) if flip else ((a, b), (b, c), (c, a)):
                table[x - 1][y - 1], table[y - 1][x - 1] = 1, -1
        found.append(tuple(map(tuple, table)))
    return tuple(found)


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


def act(g, eps):
    """Left action: (g.eps)_{PQ} = eps_{g^-1 P, g^-1 Q}, one itemgetter
    reordering the rows and then each row."""
    pick = itemgetter(*(p - 1 for p in fano.inverse(g)))
    return tuple(map(pick, pick(eps)))


def orbit(eps):
    return frozenset(act(g, eps) for g in fano.all_collineations())


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


def orbit_sides():
    """AC3.sides: the set of side tags of each orbit, sorted."""
    return sorted(({side(f) for f in o} for o in orbit_decomposition()), key=str)


@lru_cache(maxsize=None)
def isotropy():
    """The collineations fixing EPS_TAU; memoized."""
    eps = EPS_TAU
    return frozenset(g for g in fano.all_collineations() if act(g, eps) == eps)


def isotropy_is_shift_normalizer():
    """AC3.isotropy-normalizer: the isotropy equals the normalizer of the
    subgroup generated by the shift fano.TAU."""
    powers = fano.generated_subgroup((fano.TAU,))
    normalizer = set()
    for g in fano.all_collineations():
        # g t g^-1 reads t at g^-1 P and sends the value by g
        pick, image = itemgetter(*(p - 1 for p in fano.inverse(g))), (0,) + g
        if all(tuple(map(image.__getitem__, pick(t))) in powers for t in powers):
            normalizer.add(g)
    return isotropy() == normalizer


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


def exponentiate(maps):
    """The candidate sign rules eps_PQ = (-1)^{alpha_P(Q)} of a family of
    oriented maps, one table each; rules_hold says which are composition
    factors."""
    return tuple(
        tuple(
            tuple((-1) ** fano.pairing(alpha[p - 1], q) if p != q else 0 for q in fano.POINTS)
            for p in fano.POINTS
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
