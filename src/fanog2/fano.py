"""The Fano plane, its cube, its dual, its collineation group and orientations.

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
    """Value at point p of the linear form with 3-bit dual mask phi."""
    return bin(phi & MASK[p]).count("1") % 2


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


def apply(g, p):
    return g[p - 1]


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


@lru_cache(maxsize=None)
def is_additive(g):
    """g(P+Q) = gP + gQ for all P, Q (add is symmetric, so P < Q suffices);
    memoized.
    """
    return all(add(g[p], g[q]) == g[r] for p, q, r in _SUMS)


@lru_cache(maxsize=None)
def all_collineations():
    """The 168 additive bijections, built from images of the basis P1,P2,P3."""
    basis_masks = (1, 2, 4)
    result = []
    for images in permutations(range(1, 8), 3):
        # images are masks for the basis; require linear independence
        a, b, c = images
        if a ^ b == 0 or a ^ c == 0 or b ^ c == 0 or a ^ b ^ c == 0:
            continue
        perm = [0] * 7
        for m in range(1, 8):
            im = 0
            if m & 1:
                im ^= a
            if m & 2:
                im ^= b
            if m & 4:
                im ^= c
            perm[LABEL[m] - 1] = LABEL[im]
        result.append(tuple(perm))
    return tuple(sorted(result))


@lru_cache(maxsize=None)
def order(g):
    n = 1
    h = g
    while h != IDENTITY:
        h = compose(g, h)
        n += 1
    return n


def order_histogram():
    return dict(Counter(order(g) for g in all_collineations()))


def line_image(g, d):
    """The image line of D_d under a collineation."""
    pts = LINE_POINTS[d]
    imgs = {g[p - 1] for p in pts}
    return wedge(*sorted(imgs)[:2])


@lru_cache(maxsize=None)
def line_perm(g):
    """The induced permutation on line labels, memoized."""
    return tuple(line_image(g, d) for d in LINES)


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


def orientation_type(tau):
    """(0,1,3) if {P, tau P, tau^3 P} is a line for every P, else (0,2,3)."""
    if order(tau) != 7:
        raise ValueError("an orientation must have order 7")
    t3 = compose(tau, compose(tau, tau))
    if all(is_line({p, apply(tau, p), apply(t3, p)}) for p in POINTS):
        return (0, 1, 3)
    t2 = compose(tau, tau)
    if all(is_line({p, apply(t2, p), apply(t3, p)}) for p in POINTS):
        return (0, 2, 3)
    raise AssertionError("order-7 element of neither orientation type")


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
    """Closure of a set of collineations under composition."""
    seen = set(gens)
    seen.add(IDENTITY)
    frontier = list(seen)
    while frontier:
        new = []
        for g in frontier:
            for h in gens:
                gh = compose(g, h)
                if gh not in seen:
                    seen.add(gh)
                    new.append(gh)
        frontier = new
    return seen


def all_triangles():
    """All 28 non-collinear 3-sets."""
    return [frozenset(t) for t in combinations(POINTS, 3) if not is_line(t)]


def induced_line_orientation(tau, d):
    """The cyclic order (P, tau P, tau^3 P) induced on line d by a type-(0,1,3) tau."""
    if orientation_type(tau) != (0, 1, 3):
        raise ValueError("induced orientation requires a type (0,1,3) orientation")
    t3 = compose(tau, compose(tau, tau))
    for p in LINE_POINTS[d]:
        cyc = (p, apply(tau, p), apply(t3, p))
        if frozenset(cyc) == LINE_POINTS[d]:
            return cyc
    raise AssertionError("line D%d is not of the form {P, tau P, tau^3 P}" % d)


def cyclic_equal(c1, c2):
    """Whether two 3-cycles describe the same cyclic order."""
    a, b, c = c1
    return c2 in ((a, b, c), (b, c, a), (c, a, b))


def conjugacy_class(g):
    """The conjugacy class of a collineation, by exhaustive conjugation."""
    out = set()
    for h in all_collineations():
        out.add(compose(h, compose(g, inverse(h))))
    return frozenset(out)


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
    for c in classes:
        if len({order7_minimal_polynomial(g) for g in c}) != 1:
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
