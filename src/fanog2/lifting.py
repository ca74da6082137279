"""Line-orientation signs of collineations and the order-1344 covering group.

For a collineation g and a line D = {P,Q,R} the sign

    delta_star(g, D) = eps_PQ * eps_{gP,gQ}

does not depend on the pair chosen in D.  An augmented automorphism is a
pair (g, signs) with signs: points -> {+1,-1} acting by e_P -> signs(P) *
e_{gP}; it is an algebra automorphism of the 8-dimensional algebra exactly
when the product of the three signs on every line equals delta_star(g, D).
There are 8 lifts per collineation, 1344 in all.

delta_star_fn(g) is this sign as a mask, read off all six pairs of each line
for all of the group at once; the lifts, AC5, AC10.radon and diagrams read it.

AC6.orientation-powers compares fano.oriented_lines of each order-7
collineation with that of the shift.

Sign functions on points and lines are radon masks: bit P - 1 (or D - 1) is
set where the sign is -1.  Only the s of an augmented automorphism is a sign
tuple, and SIGNS and MASK_OF convert between the two forms.
"""

from functools import lru_cache
from itertools import chain, permutations
from operator import itemgetter, or_

from . import compfactor, fano, radon

def delta_star_fn(g):
    """delta_star(g, .) as a mask, the 7-bit word of the line condition for
    a collineation g, from _delta_star_words; None when no sign vector lifts g.

    (g, s) is multiplicative on e_P e_Q = eps(P,Q) e_{P+Q} iff g is additive
    and eps(P,Q) s(P+Q) = s(P) s(Q) eps(gP,gQ) for every P != Q, that is
    s(P) s(Q) s(P+Q) = eps(P,Q) eps(gP,gQ).  The left side is the product of
    s over the line D through P and Q, the same for all six ordered pairs of
    D.  So s lifts g iff the six pairs of each line D agree and the product
    of s over D is that common sign: bit D - 1 of the word is set where it
    is -1, and s lifts g iff the Radon transform of its mask is the word.
    None means g is no collineation, or some line's pairs disagree.
    """
    return _delta_star_words().get(g)


@lru_cache(maxsize=None)
def _delta_star_words():
    """The word of delta_star_fn for each collineation, memoized: per pair
    P != Q, the -1 flags of eps(gP, gQ) eps(P, Q) for all g, as an integer
    with bit D - 1 of a byte per g; their OR, or None where a pair of a line
    differs from the first."""
    group = fano.all_collineations()
    points = fano._group_columns()[0]
    eps = compfactor.EPS_TAU
    flags = bytes(a and b and a < 8 and eps[a - 1][b - 1] < 0 for a in range(32) for b in range(8))
    high = [bytes(8 * x for x in col) for col in points]
    ones = int.from_bytes(b"\1" * len(group), "little")
    word, bad, first = 0, 0, {}
    for p, q in permutations(fano.POINTS, 2):
        d = fano.wedge(p, q)
        col = bytes(map(or_, high[p], points[q])).translate(flags)
        col = (int.from_bytes(col, "little") ^ ones * (eps[p - 1][q - 1] < 0)) << d - 1
        bad |= first.setdefault(d, col) ^ col
        word |= col
    rows = zip(group, word.to_bytes(len(group), "little"), bad.to_bytes(len(group), "little"))
    return {g: None if b else w for g, w, b in rows}


def delta_star_properties():
    """Check the global identities of delta_star over the whole group, on
    the masks of delta_star_fn: bit D - 1 set where the sign of D is -1.

    - well defined: all six ordered pairs of every line D give the same
      sign, for all 168 collineations g: no word is None;
    - det g = +1 for all 168 collineations: an even number of lines of
      sign -1;
    - pencil products: the three lines through any point multiply to +1,
      an even number of them in the mask;
    - the multiplier identity delta*(g2 g1, D) = delta*(g2, g1 D) delta*(g1, D)
      for all 168^2 pairs (g1, g2) and all seven lines D.
    """
    group = fano.all_collineations()
    listed = list(map(delta_star_fn, group))
    if None in listed:
        return False
    values = set(listed)
    # det g reads all seven lines, a pencil product the three through a point
    if any(
        (m & lines).bit_count() % 2 for m in values for lines in (radon.ONE,) + radon.PENCILS
    ):
        return False
    # the masks by code (h 1 = h); 255 at a code that no listed element has
    by_code = bytearray(b"\xff" * 512)
    for code, m in zip(fano.right_products(fano.IDENTITY), listed):
        by_code[code] = m
    column, masks = bytes(listed), bytes(values)
    for g1, m1, products in zip(group, listed, fano._product_table()[0]):
        # m(g1 D) at bit D - 1, times delta*(g1, D), for each mask m that occurs
        at_images = itemgetter(*(e - 1 for e in fano.line_perm(g1)))
        moved = bytes.maketrans(masks, bytes(MASK_OF[at_images(SIGNS[m])] ^ m1 for m in masks))
        # the masks of g2 g1, by the codes in the row of g1 of the product
        # table, against the moved masks of g2, for all g2
        if bytes(itemgetter(*products)(by_code)) != column.translate(moved):
            return False
    return True


def classify_delta_star():
    """Partition of the 168 collineations by their delta_star function."""
    classes = {}
    for g in fano.all_collineations():
        classes.setdefault(delta_star_fn(g), []).append(g)
    return classes


def class_sizes():
    """AC5.classes: the sizes of the classes, sorted."""
    return sorted(len(v) for v in classify_delta_star().values())


def constant_class_is_isotropy():
    """AC5.constant-class: the class of the constant +1 is the isotropy of
    compfactor.EPS_TAU."""
    return frozenset(classify_delta_star()[radon.ZERO]) == compfactor.isotropy()


# the point attached to each member of R*: the unique P whose three lines
# carry +1, for a non-constant member; 0 for the constant function 1
_POINT_OF = {radon.ONE ^ lines: p for p, lines in enumerate(radon.PENCILS, 1)}
_POINT_OF[radon.ZERO] = 0


def distinguished_point(fn):
    """The point attached to the member fn of R*; ValueError for a sign
    function outside R*."""
    if fn not in _POINT_OF:
        raise ValueError("not a member of R*: %r" % (fn,))
    return _POINT_OF[fn]


def generator_points():
    """AC5.generator-a and AC5.generator-b: the distinguished points of the
    delta_star functions of the standard generators a and b; None for one
    outside R*, so the claim fails rather than raises."""
    return tuple(_POINT_OF.get(delta_star_fn(g)) for g in fano.standard_generators())


# ---------------------------------------------------------------------------
# augmented automorphisms: (base permutation, sign 7-tuple)

# SIGNS[m]: the sign tuple with -1 at the set bits of the mask m; MASK_OF
# inverts it
SIGNS = tuple(tuple(-1 if m >> i & 1 else 1 for i in range(7)) for m in radon.ALL_FUNCTIONS)
MASK_OF = {s: m for m, s in enumerate(SIGNS)}


def aug_apply(aug, coeffs):
    """Apply an augmented automorphism to an 8-coefficient vector."""
    g, s = aug
    out = [coeffs[0]] + [None] * 7
    for p in fano.POINTS:
        v = coeffs[p]
        out[g[p - 1]] = v if s[p - 1] == 1 else -v
    return tuple(out)


def aug_compose(a2, a1):
    """(g2, s2) after (g1, s1): base g2 g1, signs s(P) = s2(g1 P) s1(P)."""
    g2, s2 = a2
    g1, s1 = a1
    g = fano.compose(g2, g1)
    s = tuple(s2[q - 1] * x for q, x in zip(g1, s1))
    return (g, s)


AUG_IDENTITY = (fano.IDENTITY, (1,) * 7)

# the explicit signed lift a-hat of the order-2 standard generator a
AHAT = (fano.standard_generators()[0], (1, 1, 1, 1, -1, 1, -1))


def aug_order(aug):
    """The order of (g, s), in closed form: n or 2n, for n = ord(g).

    By aug_compose, (g, s)^k = (g^k, s_k) with s_k(P) = s(P) s(gP) ...
    s(g^(k-1) P).  The order is a multiple of n, since (g, s) -> g is a
    homomorphism, and (g, s)^n = (1, s_n).  So it is n if s_n is +1 at every
    P; otherwise (1, s_n) has order 2, and the order of (g, s) is 2n.
    """
    g, s = aug
    n = fano.order(g)
    for p in fano.POINTS:
        sign, q = 1, p
        for _ in range(n):
            sign *= s[q - 1]
            q = g[q - 1]
        if sign < 0:
            return 2 * n
    return n


def t_map(d):
    """The kernel element t_D: identity base, +1 on D and -1 off D."""
    return (fano.IDENTITY, SIGNS[radon.t_line(d)])


@lru_cache(maxsize=None)
def lifts(g):
    """The lifts (g, s) of g, memoized per collineation, in mask order: by
    the lifting theorem, s lifts g iff the Radon transform of the mask of s
    is delta_star_fn(g), the line word of g.

    radon.preimages tests all 128 masks against the word, so AC6.fibers
    certifies both halves of the theorem on every collineation: the lifts
    are exactly the preimages, and there are eight of them.
    """
    return tuple((g, SIGNS[m]) for m in radon.preimages(delta_star_fn(g)))


def aug_serialize(aug):
    g, s = aug
    return [fano.serialize(g), MASK_OF[s]]


@lru_cache(maxsize=None)
def enumerate_aug_group():
    """All 1344 augmented automorphisms: the lifts of the 168 collineations."""
    return tuple(chain.from_iterable(map(lifts, fano.all_collineations())))


def kernel_elements():
    """ker(projection): the identity and the seven t_D."""
    return (AUG_IDENTITY,) + tuple(t_map(d) for d in fano.LINES)


def kernel_is_t_maps():
    """AC6.kernel: the lifts of the identity are the kernel elements."""
    return set(lifts(fano.IDENTITY)) == set(kernel_elements())


def fibers_have_eight():
    """AC6.fibers: every collineation has exactly eight lifts."""
    return all(len(lifts(g)) == 8 for g in fano.all_collineations())


@lru_cache(maxsize=None)
def order_profiles():
    """AC6.profile-n: the lift order profile over a base of each order n =
    2, 3, 7 and 4; memoized.  The bases are the standard generators a and
    b, the shift, and the commutator a b a^-1 b^-1, whose profile is the
    non-splitness witness."""
    a, b = fano.standard_generators()
    c = fano.compose(a, fano.compose(b, fano.compose(fano.inverse(a), fano.inverse(b))))
    bases = {2: a, 3: b, 7: fano.TAU, 4: c}
    return {n: tuple(sorted(map(aug_order, lifts(g)))) for n, g in bases.items()}


def orientation_power_count():
    """AC6.orientation-powers: the number of order-7 collineations that
    induce the line orientations of the shift: those whose oriented line
    triples are the shift's, that is tau, tau^2 and tau^4."""
    shift = fano.oriented_lines(fano.TAU)
    order7 = (g for g in fano.all_collineations() if fano.order(g) == 7)
    return sum(fano.oriented_lines(g) == shift for g in order7)


# ---------------------------------------------------------------------------
# diagrams of the eight delta_star colorings, drawn by radon.incidence_dot


def _colorings():
    """(distinguished point, delta_star function, class size) per coloring."""
    classes = classify_delta_star()
    return sorted((distinguished_point(fn), fn, len(gs)) for fn, gs in classes.items())


def delta_star_diagram_text():
    """Text grid: one section per R* member, lines tagged +/-, with the
    distinguished point (or none for the constant function).
    """
    sections = []
    for p, fn, size in _colorings():
        head = "none (constant +1)" if p == 0 else "P%d" % p
        signs = "  ".join(radon.sign_labels(fn, "D"))
        sections.append("distinguished point: %s\n  %s\n  class size: %d" % (head, signs, size))
    return "\n\n".join(sections)


def delta_star_diagram_dot():
    """DOT graphs: incidence graph of the plane, one graph per coloring,
    line nodes colored by the sign.
    """
    return "\n".join(
        radon.incidence_dot(
            "deltastar_%d" % idx,
            ['label="distinguished point %s"' % ("none" if p0 == 0 else "P%d" % p0)],
            ["shape=doublecircle" if p == p0 else "shape=circle" for p in fano.POINTS],
            ["shape=box, " + attrs for attrs in radon.sign_attrs(fn)],
        )
        for idx, (p0, fn, _) in enumerate(_colorings())
    )
