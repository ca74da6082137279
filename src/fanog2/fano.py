"""The Fano plane, its cube, its dual, its collineations and oriented lines.

Points are labelled 1..7 and identified with the nonzero vectors of (Z_2)^3
through a fixed coordinate model: P1 -> 001, P2 -> 010, P3 -> 100 and then
P_{i+3} = P_i + P_{i+1} (indices mod 7).  Lines are labelled 1..7 with
D_i = {P_i, P_{i+1}, P_{i+3}}.  A collineation is stored as a tuple of 7
labels (the image of each point); additivity over (Z_2)^3 is the validation
predicate.
"""

from collections import Counter
from functools import lru_cache
from itertools import combinations, permutations
from math import lcm
from operator import itemgetter, or_
from struct import calcsize, pack, unpack

# label -> 3-bit mask, generated by the recurrence P_{i+3} = P_i + P_{i+1}
MASK = {1: 0b001, 2: 0b010, 3: 0b100, 4: 0b011, 5: 0b110, 6: 0b111, 7: 0b101}
LABEL = {m: i for i, m in MASK.items()}

POINTS = (1, 2, 3, 4, 5, 6, 7)
LINES = (1, 2, 3, 4, 5, 6, 7)

IDENTITY = (1, 2, 3, 4, 5, 6, 7)


def _lab(k):
    """Reduce an integer index to the 1..7 label range."""
    return (k - 1) % 7 + 1


# D_i = {P_i, P_{i+1}, P_{i+3}}
LINE_POINTS = {i: frozenset({i, _lab(i + 1), _lab(i + 3)}) for i in LINES}
_LINE_OF_PAIR = {}
for _i, _pts in LINE_POINTS.items():
    for _p in _pts:
        for _q in _pts:
            if _p != _q:
                _LINE_OF_PAIR[(_p, _q)] = _i

# quadrilaterals are the complements of the lines
QUADRILATERALS = {i: frozenset(POINTS) - LINE_POINTS[i] for i in LINES}

def pairing(phi, p):
    """Value at point p of the linear form with 3-bit dual mask phi: the
    parity of phi & MASK[p]."""
    return (phi & MASK[p]).bit_count() & 1


# the linear form vanishing on a line, as a 3-bit mask
def _dual_mask(i):
    for phi in range(1, 8):
        if all(pairing(phi, p) == 0 for p in LINE_POINTS[i]):
            return phi
    raise AssertionError("no vanishing form for line %d" % i)


LINE_DUAL_MASK = {i: _dual_mask(i) for i in LINES}
LINE_OF_DUAL_MASK = {m: i for i, m in LINE_DUAL_MASK.items()}


def add(p, q):
    """Sum of two points in the Fano cube; 0 when p == q."""
    m = MASK[p] ^ MASK[q]
    return LABEL[m] if m else 0


def wedge(p, q):
    """The unique line through two distinct points."""
    if p == q:
        raise ValueError("wedge of equal points is undefined")
    return _LINE_OF_PAIR[(p, q)]


def line_add(d1, d2):
    """Third line through the intersection point of two distinct lines."""
    if d1 == d2:
        raise ValueError("line_add of equal lines is undefined")
    m = LINE_DUAL_MASK[d1] ^ LINE_DUAL_MASK[d2]
    return LINE_OF_DUAL_MASK[m]


def is_line(points):
    """True iff a 3-set of points is a line (masks XOR to zero)."""
    pts = list(points)
    if len(pts) != 3:
        return False
    return MASK[pts[0]] ^ MASK[pts[1]] ^ MASK[pts[2]] == 0


@lru_cache(maxsize=None)
def lines_through(p):
    return tuple(i for i in LINES if p in LINE_POINTS[i])


def compose(g, h):
    """g after h."""
    return tuple(g[h[i] - 1] for i in range(7))


def inverse(g):
    inv = [0] * 7
    for i in range(7):
        inv[g[i] - 1] = i + 1
    return tuple(inv)


# (P, Q, P+Q) as 0-based indices, for the 21 pairs P < Q
_SUMS = tuple((p - 1, q - 1, add(p, q) - 1) for p in POINTS for q in POINTS if p < q)


def is_additive(g):
    """g(P+Q) = gP + gQ for all P, Q (add is symmetric, so P < Q suffices)."""
    return all(add(g[p], g[q]) == g[r] for p, q, r in _SUMS)


@lru_cache(maxsize=None)
def all_collineations():
    """The 168 additive bijections, built from the masks a, b, c of the
    images of the basis P1, P2, P3, which are independent iff c != a ^ b."""
    result = []
    for a, b, c in permutations(range(1, 8), 3):
        if c != a ^ b:
            image = {m: (m & 1 and a) ^ (m & 2 and b) ^ (m & 4 and c) for m in range(1, 8)}
            result.append(tuple([LABEL[image[MASK[p]]] for p in POINTS]))
    return tuple(sorted(result))


def group_order():
    """AC1.size: the number of collineations."""
    return len(all_collineations())


@lru_cache(maxsize=None)
def order(g):
    """The order of a permutation of the points, memoized: the lcm of the
    lengths of its cycles, so no power of g is formed."""
    n, seen = 1, set()
    for p in POINTS:
        k = 0
        while p not in seen:
            seen.add(p)
            p, k = g[p - 1], k + 1
        n = lcm(n, k or 1)
    return n


def oriented_lines(g):
    """The seven cyclic triples (P, gP, g^3 P), each rotated to start at its
    least point.  For the shift TAU they are the lines D_i, one cyclic order
    each, so an order-7 g has TAU's set iff it orders each line as TAU does."""
    g3 = compose(g, compose(g, g))
    triples = ((p, g[p - 1], g3[p - 1]) for p in POINTS)
    return frozenset(min(t, t[1:] + t[:1], t[2:] + t[:2]) for t in triples)


def order_histogram():
    return dict(Counter(order(g) for g in all_collineations()))


# two points of each line D_1..D_7, as 0-based indices
_LINE_PAIRS = tuple((d - 1, d % 7) for d in LINES)


@lru_cache(maxsize=None)
def line_perm(g):
    """The induced permutation on line labels, memoized: g D is the line
    through the images of two points of D."""
    return tuple([_LINE_OF_PAIR[g[p], g[q]] for p, q in _LINE_PAIRS])


@lru_cache(maxsize=None)
def _group_columns():
    """all_collineations() transposed, memoized: over all h in that order,
    the images h P of each label P = 0..7 (h fixes the unit 0) and h D of each
    line D, as bytes."""
    group = all_collineations()
    points = (bytes(len(group)),) + tuple(map(bytes, zip(*group)))
    lines = dict(zip(LINES, map(bytes, zip(*map(line_perm, group)))))
    return points, lines


@lru_cache(maxsize=None)
def _pair_columns():
    """For each pair (P, Q) of labels 0..7, the byte 8 hP + hQ for each h in
    all_collineations() order (h fixes the unit 0), memoized: bytes.translate
    with a table indexed by 8 a + b reads a value of each pair of labels
    (a, b) off the whole group at once."""
    points = _group_columns()[0]
    high = [bytes(map((8).__mul__, col)) for col in points]
    return {(p, q): bytes(map(or_, high[p], points[q])) for p in range(8) for q in range(8)}


@lru_cache(maxsize=None)
def _product_table():
    """The group's Cayley table, memoized: the row of g at each position of
    all_collineations() holds the position of h g for each h in that order,
    255 where h g lies outside the list, which is then no group.  h g is
    found by its code, the masks of its images of P1, P2, P3 at bits 0, 3,
    6, which fix it; the codes over all h are read off the 16-bit mask
    columns of g P1, g P2, g P3, since h g sends P_k to h(g P_k)."""
    group, points = all_collineations(), _group_columns()[0]
    fmt = "<%dH" % len(group)
    masks = {p: int.from_bytes(pack(fmt, *map(MASK.get, points[p])), "little") for p in POINTS}

    def right_products(g):
        code = masks[g[0]] | masks[g[1]] << 3 | masks[g[2]] << 6
        return unpack(fmt, code.to_bytes(calcsize(fmt), "little"))

    at = bytearray(b"\xff" * 512)
    for n, code in enumerate(right_products(IDENTITY)):
        at[code] = n
    return tuple([bytes(itemgetter(*right_products(g))(at)) for g in group])


def _position(g):
    """The position of a collineation in all_collineations(); ValueError for
    anything else."""
    if g not in all_collineations():
        raise ValueError("not a collineation: %r" % (g,))
    return all_collineations().index(g)


def order7_minimal_polynomial(g):
    """Which cubic over Z_2 annihilates an order-7 collineation.

    Returns 'x^3+x^2+1' or 'x^3+x+1'.  g is linear on the masks, so
    g^3 + h + 1 = 0 (h = g^2 or g) holds iff it holds on the seven nonzero
    vectors: MASK[g^3 P] ^ MASK[h P] == MASK[P] for every point P.
    """
    if order(g) != 7:
        raise ValueError("collineation is not of order 7")
    g2 = compose(g, g)
    g3 = compose(g, g2)
    for h, tag in ((g2, "x^3+x^2+1"), (g, "x^3+x+1")):
        if all(MASK[g3[p - 1]] ^ MASK[h[p - 1]] == MASK[p] for p in POINTS):
            return tag
    raise AssertionError("order-7 element annihilated by neither cubic")


def legendre7(n):
    """Legendre symbol (n/7), computed as n^3 mod 7 read in {+1,-1}."""
    if n % 7 == 0:
        raise ValueError("legendre7 undefined for multiples of 7")
    r = pow(n, 3, 7)
    return 1 if r == 1 else -1


# the canonical shift i -> i+1; equal to a*b for the standard generators
TAU = (2, 3, 4, 5, 6, 7, 1)


def standard_generators():
    """Generators a (order 2) and b (order 3) with ab = TAU.

    They satisfy a^2 = b^3 = (ab)^7 = (aba^-1 b^-1)^4 = 1 and generate the
    whole 168-element group.
    """
    a = (1, 2, 7, 4, 6, 5, 3)
    b = (2, 7, 4, 6, 5, 3, 1)
    return a, b


def standard_generators_check():
    """AC1.generators: (ab is the shift, a and b are additive, the order of
    the group they generate)."""
    a, b = standard_generators()
    return (
        compose(a, b) == TAU,
        is_additive(a) and is_additive(b),
        len(generated_subgroup((a, b))),
    )


def generated_subgroup(gens):
    """Closure of a set of collineations under composition, by a
    breadth-first search over positions: each product g h is read off the
    row of h in the product table.  A product outside all_collineations(),
    which is then no group, is left out."""
    table = _product_table()
    rows = [table[_position(h)] for h in gens]
    seen = {_position(IDENTITY), *map(_position, gens)}
    frontier = list(seen)
    while frontier:
        new = []
        for i in frontier:
            for row in rows:
                k = row[i]
                if k not in seen and k != 255:
                    seen.add(k)
                    new.append(k)
        frontier = new
    group = all_collineations()
    return {group[i] for i in seen}


def all_triangles():
    """All 28 non-collinear 3-sets."""
    return [frozenset(t) for t in combinations(POINTS, 3) if not is_line(t)]


def conjugacy_class(g):
    """The conjugacy class of a collineation, by exhaustive conjugation: for
    each h, h g h^-1 = (h g) h^-1 is two lookups in the product table, the
    position of h g in the row of g and then the position at that entry of
    the row of h^-1.  The row of each h holds the position of h^-1 where it
    holds that of the identity.  Empty when some product or inverse lies
    outside all_collineations(), which is then no group."""
    table, group = _product_table(), all_collineations()
    identity = _position(IDENTITY)
    inverses = [row.find(identity) for row in table]
    products = table[_position(g)]
    if -1 in inverses or 255 in products:
        return frozenset()
    conjugates = {table[i][k] for i, k in zip(inverses, products)}
    return frozenset() if 255 in conjugates else frozenset(map(group.__getitem__, conjugates))


def order7_class_split():
    """The order-7 elements split into two classes of 24, separated both by
    the exhaustive-conjugation oracle and by the minimal-polynomial tag,
    and powers tau^n fall in the class of tau exactly when n is a quadratic
    residue mod 7.
    """
    classes = []
    for g in all_collineations():
        if order(g) == 7 and not any(g in c for c in classes):
            classes.append(conjugacy_class(g))
    if len(classes) != 2 or any(len(c) != 24 for c in classes):
        return False
    tags = [{order7_minimal_polynomial(g) for g in c} for c in classes]
    if any(len(t) != 1 for t in tags) or tags[0] == tags[1]:
        return False
    powers = {1: TAU}
    for n in range(2, 7):
        powers[n] = compose(TAU, powers[n - 1])
    tau_class = next(c for c in classes if TAU in c)
    for n in range(1, 7):
        if (powers[n] in tau_class) != (legendre7(n) == 1):
            return False
    return True


def serialize(g):
    """A collineation as a 7-character digit string."""
    return "".join(str(v) for v in g)


def line_name(d):
    return "D%d" % d
